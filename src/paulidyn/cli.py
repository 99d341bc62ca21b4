"""Command-line front end.

Subcommands:

- ``mub``      construct a complete MUB family and its unbiasedness table
- ``channel``  convert / certify a static generalized Pauli channel
- ``dynamics`` integrate a rate set and run every divisibility analyzer
- ``presets``  list the bundled rate presets

Exit codes: 0 = analysis completed (verdicts live in the report, a
non-Markovian finding is still success), 2 = usage or validation problem,
or a file that cannot be written, 3 = parse/quadrature/numerical failure.

Every file goes through :func:`_write`, which writes an iterable of text
chunks as they come, UTF-8 with ``"\n"`` line ends.  trajectory.csv arrives
in blocks of 512 rows and mub_d<d>_overlaps.csv one basis pair (d**2 rows)
at a time, so no file is held whole.  Files are written only after the
computation they record has succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import dynamics as dyn
from .errors import InvalidInputError, PaulidynError
from .mub import cross_overlaps, mub_family
from .ratefn import PRESET_NAMES, PRESET_SUMMARIES, preset_rates, rate_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _bind_dash_values(argv) -> list:
    """Join ``--gamma -tanh(t)`` into ``--gamma=-tanh(t)`` (likewise --c, --lambdas
    and --probs), so that argparse does not take a value starting with - for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--gamma", "--c", "--lambdas", "--probs") and arg[:1] == "-":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _float_list(text: str, name: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"{name} must be a comma-separated float list: {exc}") from exc


def _write(path: Path, chunks):
    """Write the text chunks of an iterable to ``path`` as they come, UTF-8 with
    ``"\n"`` line ends whatever the locale or platform, so the file never has to be
    held whole.  An ``OSError`` (exit 2) can leave a partial file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.writelines(chunks)


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _array_json(array: np.ndarray, level: int) -> str:
    """``json.dumps(array.tolist(), indent=2)`` for a finite float array nested ``level``
    deep in its document: each distinct value's repr is taken once and the indented
    nesting comes from one template.  json's indenting encoder is pure Python and took
    about 0.2 s on the 61,504 floats of mub_d31.json."""
    template = "%s"
    for depth in range(array.ndim, 0, -1):
        inner = "\n" + "  " * (level + depth)
        template = ("[" + inner + ("," + inner).join([template] * array.shape[depth - 1])
                    + "\n" + "  " * (level + depth - 1) + "]")
    return template % tuple(_column_text(array.ravel(), "%r"))


def _column_text(column: np.ndarray, fmt: str) -> list:
    """``fmt % value`` for every entry of a 1-d int64 or float64 column, formatting
    each distinct bit pattern once (0.0 and -0.0 stay apart)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = [fmt % value for value in bits.view(column.dtype).tolist()]
    return list(map(text.__getitem__, inverse.tolist()))


def _overlap_blocks(d: int, pairs):
    """The text of mub_d<d>_overlaps.csv from the (alpha, beta, overlap) pairs of
    ``cross_overlaps``: the header, then one block of d*d rows per basis pair."""
    yield "alpha,beta,k,l,overlap_sq\n"
    kl = [f"{k},{l}," for k, l in np.ndindex(d, d)]
    for a, b, overlap in pairs:
        ab = f"{a},{b},"
        yield "".join([ab + k_l + value + "\n" for k_l, value
                       in zip(kl, _column_text(overlap.ravel(), "%.17g"))])


def cmd_mub(args) -> int:
    d = args.d
    family = mub_family(d)
    out = Path(args.out)
    data = family.to_json_dict()
    bases, data["bases"] = np.asarray(data["bases"]), None
    head, _, tail = _json_text(data).partition("null")  # the document's one null: "bases"
    _write(out / f"mub_d{d}.json", (head, _array_json(bases, 1), tail))
    worst = []  # max |overlap^2 - 1/d| of each pair, taken as the pair is written

    def pairs():
        for a, b, overlap in cross_overlaps(family):
            worst.append(float(np.abs(overlap - 1.0 / d).max()))
            yield a, b, overlap

    _write(out / f"mub_d{d}_overlaps.csv", _overlap_blocks(d, pairs()))
    print(f"d={d}: {family.n_bases} bases, {len(worst) * d * d} cross-overlap rows, "
          f"max |overlap^2 - 1/d| = {max(worst):.3e}")
    print(f"wrote {out / f'mub_d{d}.json'} and {out / f'mub_d{d}_overlaps.csv'}")
    return EXIT_OK


def cmd_channel(args) -> int:
    d = args.d
    family = mub_family(d)
    if args.lambdas is not None:
        lam = _float_list(args.lambdas, "--lambdas")
        ch = channel_mod.channel_from_eigenvalues(family, lam)
    else:
        probs = _float_list(args.probs, "--probs")
        ch = channel_mod.channel_from_probabilities(family, probs)
    check = channel_mod.is_cp_fujiwara(ch)
    choi_min = channel_mod.choi_matrix(ch).min_eigenvalue()
    if args.format == "json":
        payload = ch.to_json_dict()
        payload["cp_margin"] = check.margin
        payload["choi_min_eigenvalue"] = choi_min
        print(_json_text(payload), end="")
    else:
        print(f"dim: {d}")
        print("probabilities:", " ".join(format(x, ".17g") for x in ch.probabilities))
        print("eigenvalues:  ", " ".join(format(x, ".17g") for x in ch.eigenvalues))
        print(f"cp: {str(check.is_cp).lower()} "
              f"(margin {check.margin:.17g}; lower {check.lower_margin:.17g}, "
              f"upper {check.upper_margin:.17g})")
        print(f"choi min eigenvalue: {choi_min:.17g}")
    if args.out is not None:
        out = Path(args.out)
        _write(out / f"channel_d{d}.json", [_json_text(ch.to_json_dict())])
        print(f"wrote {out / f'channel_d{d}.json'}")
    return EXIT_OK


def _resolve_rates(args):
    if args.preset is not None:
        constants = None if args.c is None else _float_list(args.c, "--c")
        return preset_rates(args.preset, d=args.d, constants=constants)
    if args.c is not None:
        raise InvalidInputError("--c takes the constants of --preset semigroup only")
    if args.d is None:
        raise InvalidInputError("--d is required with explicit --gamma rates")
    return rate_set(args.d, args.gamma)


def cmd_dynamics(args) -> int:
    rates = _resolve_rates(args)
    family = mub_family(rates.dim)
    traj, report = dyn.analyze(
        rates, family, t_max=args.t_max, steps=args.steps, seed=args.seed,
        tol=args.tol, witness_attempts=args.attempts, refine_iters=args.refine_iters,
        blp_pairs=args.blp_pairs,
    )
    out = Path(args.out)
    _write(out / "trajectory.csv", dyn.trajectory_csv_blocks(traj))
    _write(out / "report.json", [_json_text(report.to_json_dict())])
    for v in report.verdicts:
        extra = ""
        if v.status == dyn.VIOLATED and v.first_violation_time is not None:
            extra = f" first at t={v.first_violation_time:.17g}"
        margin = "nan" if np.isnan(v.margin) else format(v.margin, ".6e")
        print(f"{v.criterion}: {v.status} (margin {margin}){extra}")
    for label, w in (("trace_norm_witness", report.trace_norm_witness),
                     ("blp_witness", report.blp_witness)):
        if w is None:
            print(f"{label}: none")
        else:
            print(f"{label}: found kind={w.kind} magnitude={w.magnitude:.6e} "
                  f"s={w.s:.17g} t={w.t:.17g}")
    print(f"wrote {out / 'trajectory.csv'} and {out / 'report.json'}")
    return EXIT_OK


def cmd_presets(args) -> int:
    for name in PRESET_NAMES:
        print(f"{name}: {PRESET_SUMMARIES[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulidyn",
        description="Generalized Pauli channels: MUB construction, static channel "
                    "certification, and divisibility analysis of rate-driven dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mub = sub.add_parser("mub", help="construct a complete MUB family (prime d)")
    p_mub.add_argument("--d", type=int, required=True, help="Hilbert space dimension (prime)")
    p_mub.add_argument("--out", default=".", help="output directory")
    p_mub.set_defaults(func=cmd_mub)

    p_ch = sub.add_parser("channel", help="convert/certify a static channel")
    p_ch.add_argument("--d", type=int, required=True)
    coords = p_ch.add_mutually_exclusive_group(required=True)
    coords.add_argument("--lambdas", help="comma list lambda_1..lambda_{d+1}")
    coords.add_argument("--probs", help="comma list p_0..p_{d+1}")
    p_ch.add_argument("--format", choices=["text", "json"], default="text")
    p_ch.add_argument("--out", default=None, help="also write channel JSON here")
    p_ch.set_defaults(func=cmd_channel)

    p_dyn = sub.add_parser("dynamics", help="integrate rates and analyze divisibility")
    source = p_dyn.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=list(PRESET_NAMES))
    source.add_argument("--gamma", action="append",
                        help="rate expression for the next alpha (repeat d+1 times)")
    p_dyn.add_argument("--d", type=int, help="dimension (required for --gamma and most presets)")
    p_dyn.add_argument("--c", help="comma list of constants for the semigroup preset")
    p_dyn.add_argument("--t-max", type=float, default=5.0)
    p_dyn.add_argument("--steps", type=int, default=400)
    p_dyn.add_argument("--seed", type=int, default=42)
    p_dyn.add_argument("--tol", type=float, default=1e-10)
    p_dyn.add_argument("--attempts", type=int, default=64,
                       help="seeded start pairs for the witness see-saw (0: axis scan only)")
    p_dyn.add_argument("--refine-iters", type=int, default=50,
                       help="cap on see-saw steps per round and on pair-step rounds")
    p_dyn.add_argument("--blp-pairs", type=int, default=20,
                       help="state pairs for the BLP trace-distance probe: one antipodal "
                            "pair per basis, then seeded random mixed pairs")
    p_dyn.add_argument("--out", default=".", help="output directory")
    p_dyn.set_defaults(func=cmd_dynamics)

    p_pre = sub.add_parser("presets", help="preset utilities")
    p_pre.add_argument("action", choices=["list"])
    p_pre.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_bind_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PaulidynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # contract: report and exit, never traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
