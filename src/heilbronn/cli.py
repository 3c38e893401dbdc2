"""Command-line surface: spectra, Fermat counts, the reference-table
reproduction, the verification suites, and benchmarks."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from .fermat import (NAIVE_MAX_PRIME, FermatResult, _third_moment_block,
                     ciik_report, fermat_count_naive_reduced, fermat_F_spectral,
                     fermat_table, quartic_power_check, structure_block_enumerated,
                     structure_constants_spectral_all, third_moment_check)
from .modarith import (InvalidInput, build_context, check_odd_prime,
                       log_level_sets, odd_primes_upto, primitive_roots_mod_p2,
                       truncated_log)
from .spectra import heilbronn_table, spectrum, verify_spectrum_identities

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 4
EXIT_GOLDEN = 5

# The quick suite peaks at about 115 bytes per residue of Z/p^2Z (build_U's
# phase table, its complex sigma and U): 438 MB at p = 2003, under 1 GB.
VERIFY_MAX_PRIME = 2003


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_spectrum(args) -> int:
    ctx = build_context(args.p)
    s = spectrum(ctx)
    if args.format == "csv":
        _emit(s.to_csv(), args.output)
    elif args.format == "json":
        _emit(s.to_json(), args.output)
    else:
        lines = [f"p={s.p} g={s.g} err_bound={s.err_bound:.3g}"]
        lines += [f"  H_p(g^{m}) = {v:.12f}"
                  for m, v in enumerate(s.values, start=1)]
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_fermat(args) -> int:
    ctx = build_context(args.p)
    results = []
    if args.method in ("spectral", "both"):
        s = spectrum(ctx)
        results.append(fermat_F_spectral(ctx, s, args.a, args.b, args.c))
    if args.method in ("naive", "both"):
        count = fermat_count_naive_reduced(ctx, args.a, args.b, args.c)
        results.append(FermatResult(p=args.p, a=args.a, b=args.b, c=args.c,
                                    F=count // (args.p - 1), residual=0.0,
                                    method="naive"))
    match = len({r.F for r in results}) == 1
    if args.format == "json":
        payload = [json.loads(r.to_json()) for r in results]
        if args.method == "both":
            payload = {"results": payload, "match": match}
        _emit(json.dumps(payload), args.output)
    else:
        lines = [f"method={r.method} F={r.F} solution_count={r.solution_count} "
                 f"residual={r.residual:.3g}" for r in results]
        if args.method == "both":
            lines.append(f"match={str(match).lower()}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if match else EXIT_DISAGREEMENT


def cmd_table(args) -> int:
    if args.pmax < 3:
        raise InvalidInput("--pmax must be at least 3")
    rows = fermat_table(args.pmax, strict=False)
    ok = all(r.match for r in rows)
    if args.format == "csv":
        lines = ["p,F,golden,match"]
        lines += [f"{r.p},{r.F},{'' if r.golden is None else r.golden},"
                  f"{str(r.match).lower()}" for r in rows]
        _emit("\n".join(lines) + "\n", args.output)
    elif args.format == "json":
        _emit(json.dumps([vars(r) for r in rows]), args.output)
    else:
        _emit("\n".join(f"F({r.p}) = {r.F}"
                        + ("" if r.match else f"  MISMATCH (golden {r.golden})")
                        for r in rows), args.output)
    if not ok:
        bad = next(r for r in rows if not r.match)
        print(f"golden mismatch at p={bad.p}: computed {bad.F}, "
              f"reference {bad.golden}", file=sys.stderr)
        return EXIT_GOLDEN
    return EXIT_OK


def run_verify(p: int, depth: str = "quick") -> list[tuple[str, bool, str]]:
    """Invariant suites for one prime; returns (name, passed, detail) rows.
    Raises InvalidInput above NAIVE_MAX_PRIME for depth "full" and above
    VERIFY_MAX_PRIME for "quick", before anything of size p^2 is built."""
    check_odd_prime(p)
    cap = NAIVE_MAX_PRIME if depth == "full" else VERIFY_MAX_PRIME
    if p > cap:
        raise InvalidInput(f"{depth} verification is capped at p <= {cap}")
    checks: list[tuple[str, bool, str]] = []
    ctx = build_context(p)
    s = spectrum(ctx)

    rep = verify_spectrum_identities(s)
    checks.append(("spectrum-identities", rep.passed,
                   f"residuals {rep.sum_residual:.2e} {rep.norm_residual:.2e} "
                   f"{rep.dot_residual:.2e}"))

    U = heilbronn_table(ctx, s).U
    uni = float(np.abs(U @ U.T - np.eye(p + 2)).max())
    sym = float(np.abs(U - U.T).max())
    checks.append(("unitary-symmetric-U", uni < 1e-8 and sym < 1e-10,
                   f"|UU*-I|={uni:.2e} |U-U^T|={sym:.2e}"))

    tensor = structure_constants_spectral_all(ctx, s)
    base = tensor.base
    fft_block, fft_residual = _third_moment_block(s)
    checks.append(("third-moment-block", np.array_equal(fft_block, base),
                   f"rounded FFT block equals the exact block, "
                   f"residual {fft_residual:.2e}"))
    row_ok = all(int(base[j - 1].sum()) + tensor.c(p, j, p + 1)
                 + tensor.c(p, j, p + 2) == p - 1
                 for j in range(1, p + 1) if j != p)
    checks.append(("row-sums", row_ok, "sum_k c(i,j,k) = p-1 for j != i"))
    sym_ok = np.array_equal(base, base.T)
    checks.append(("tensor-symmetry", sym_ok, "c(p,j,k) = c(p,k,j)"))

    diag = ciik_report(tensor)
    checks.append(("ciik-bounds", diag.passed,
                   f"max={diag.max_ciik} bound={diag.max_bound:.1f} "
                   f"sum={diag.diag_sum}"))

    m3 = third_moment_check(ctx, s, p, p, p)
    m4 = quartic_power_check(ctx, s, tensor)
    checks.append(("third-moment", m3.passed, f"|lhs-rhs|={abs(m3.lhs - m3.rhs):.2e}"))
    checks.append(("fourth-moment", m4.passed, f"|lhs-rhs|={abs(m4.lhs - m4.rhs):.2e}"))

    table = log_level_sets(ctx)
    sizes_ok = sum(len(v) for v in table.level_sets.values()) == p - 1
    checks.append(("truncated-log-level-sets", sizes_ok,
                   f"max |N_r| = {table.max_level_size}"))
    T, p2, u = ctx.pth_powers, p * p, np.arange(2, p)
    lb1 = np.array_equal((1 - T[(1 - u) % p]) % p2,
                         (T[u] + p * truncated_log(p, u)) % p2)
    checks.append(("truncated-log-binomial", lb1, "Lemma-style binomial identity"))

    g2 = primitive_roots_mod_p2(p, 2)[-1]
    ctx2 = build_context(p, g=g2)
    F1 = fermat_F_spectral(ctx, s, 1, 1, 1).F
    F2 = fermat_F_spectral(ctx2, spectrum(ctx2), 1, 1, 1).F
    checks.append(("root-independence", F1 == F2, f"F={F1} under g={ctx.g},{g2}"))

    if depth == "full":
        naive = structure_block_enumerated(ctx, p)
        enum_ok = (np.array_equal(naive[:, :p], base)
                   and all(naive[j - 1, p] == tensor.c(p, j, p + 1)
                           and naive[j - 1, p + 1] == tensor.c(p, j, p + 2)
                           for j in range(1, p + 1)))
        checks.append(("enumeration-agreement", enum_ok,
                       "spectral tensor equals exhaustive counts"))
        count = fermat_count_naive_reduced(ctx, 1, 1, 1)
        checks.append(("naive-agreement", count == (p - 1) * F1,
                       f"naive {count} vs (p-1)F = {(p - 1) * F1}"))
    return checks


def cmd_verify(args) -> int:
    checks = run_verify(args.p, "full" if args.full else "quick")
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    for name, ok, _ in checks:
        if not ok:
            print(f"first failing invariant: {name}", file=sys.stderr)
            return EXIT_INVARIANT
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.pmin > args.pmax:
        raise InvalidInput("--pmin must not exceed --pmax")
    p_list = [p for p in odd_primes_upto(args.pmax) if p >= args.pmin]
    if not p_list:
        raise InvalidInput("no primes in the requested range")
    if args.task == "single-F":
        report = bench_mod.bench_single_F(p_list, reps=args.reps)
    else:
        report = bench_mod.bench_all_triples(p_list, reps=args.reps)
    if args.format == "csv":
        _emit(report.to_csv(), args.output)
    elif args.format == "json":
        _emit(report.to_json(), args.output)
    elif args.gnuplot:
        _emit(report.to_gnuplot(), args.output)
    else:
        lines = [f"task={report.task} crossover_p={report.crossover_p}"]
        lines += [f"  slope[{m}] = {v:.3f}"
                  for m, v in sorted(report.fitted_slopes.items())]
        lines += [f"  p={s.p:<5} {s.method:<9} {s.seconds:.6f}s"
                  for s in report.samples]
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _add_format_flags(sub) -> None:
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--csv", dest="format", action="store_const", const="csv")
    grp.add_argument("--json", dest="format", action="store_const", const="json")
    sub.set_defaults(format="text")
    sub.add_argument("-o", "--output", default=None, help="write to file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heilbronn",
        description="Heilbronn sums, supercharacter tables, and "
                    "Fermat-congruence counting mod p^2")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="the vector (H_p(g^1),...,H_p(g^p))")
    sp.add_argument("-p", type=int, required=True)
    _add_format_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    fe = subs.add_parser("fermat", help="count solutions of ax^p+by^p=cz^p mod p^2")
    fe.add_argument("-p", type=int, required=True)
    fe.add_argument("-a", type=int, default=1)
    fe.add_argument("-b", type=int, default=1)
    fe.add_argument("-c", type=int, default=1)
    fe.add_argument("--method", choices=["naive", "spectral", "both"],
                    default="spectral")
    _add_format_flags(fe)
    fe.set_defaults(func=cmd_fermat)

    tb = subs.add_parser("table", help="F(p;1,1,1) against the reference table")
    tb.add_argument("--pmax", type=int, required=True)
    _add_format_flags(tb)
    tb.set_defaults(func=cmd_table)

    ve = subs.add_parser("verify", help="run the invariant suites for one prime")
    ve.add_argument("-p", type=int, required=True)
    grp = ve.add_mutually_exclusive_group()
    grp.add_argument("--quick", action="store_true")
    grp.add_argument("--full", action="store_true")
    ve.set_defaults(func=cmd_verify)

    be = subs.add_parser("bench", help="naive vs spectral timing with slope fits")
    be.add_argument("--task", choices=["single-F", "all-triples"],
                    default="single-F")
    be.add_argument("--pmin", type=int, default=31)
    be.add_argument("--pmax", type=int, default=199)
    be.add_argument("--reps", type=int, default=3)
    be.add_argument("--gnuplot", action="store_true",
                    help="emit gnuplot-compatible data (text mode)")
    _add_format_flags(be)
    be.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except bench_mod.MethodDisagreement as exc:
        print(f"disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
