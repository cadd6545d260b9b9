"""Command-line interface.

Commands:
  msc     coherence optimizer report for a state file or named family
  qse     steering-ellipsoid report (center, semiaxes, frame, Bob's Bloch)
  sweep   CSV of coherence vs amplitude-damping strength on Bob's side
  gen     write a family state to a JSON state file
  verify  run the analytic-vs-numeric self checks

Exit codes: 0 success, 1 verification failure, 2 input/validation error,
3 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .channels import bloch_affine, damping_bloch, unital_pauli
from .errors import LinearAlgebraFailure, QsteerError
from .msc import msc_general, msc_sweep, msc_two_qubit
from .qcore import DensityMatrix, bloch_vector, partial_trace
from .statefile import load_state, save_state
from .states import (
    chord_state,
    dlc_state,
    maximally_obese,
    pure_schmidt,
    rho_c,
    rho_p,
    werner,
    x_state,
)
from .steering import qse
from .verify import CHECKS, DEFAULT_SEED, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _number(text: str, flag: str, parse=float):
    # A finite number from a flag's text; anything else is an input error.
    try:
        value = parse(text)
    except ValueError:
        raise QsteerError(f"--{flag}: {text!r} is not a number") from None
    if not np.isfinite(value):
        raise QsteerError(f"--{flag}: {text!r} is not finite")
    return value


def _parse_angle(text: str) -> float:
    text = text.strip().lower()
    if not text.endswith("pi"):
        return _number(text, "theta")
    # A bare or signed "pi" has the coefficient 1; a finite coefficient can still overflow once times pi.
    coeff = text[:-2]
    theta = _number(coeff + "1" if coeff in ("", "+", "-") else coeff, "theta") * math.pi
    if not math.isfinite(theta):
        raise QsteerError(f"--theta: {text!r} is not finite")
    return theta


def _family_state(args) -> DensityMatrix:
    fam = args.family
    if fam == "werner":
        return werner(_req(args, "p")).state
    if fam == "rho-p":
        return rho_p(_req(args, "p"), _parse_angle(_req(args, "theta"))).state
    if fam == "classical-c":
        return rho_c(_req(args, "t")).state
    if fam == "obese":
        return maximally_obese(_req(args, "b")).state
    if fam == "chord":
        b = _req(args, "b")
        if not -1.0 <= b <= 1.0:
            raise QsteerError(f"--b: {b!r} outside [-1, 1] for the chord family")
        alpha = math.acos(b)
        chi = np.array([math.cos(alpha / 2), math.sin(alpha / 2)])
        chi_p = np.array([math.cos(alpha / 2), -math.sin(alpha / 2)])
        return chord_state(np.array([1.0, 0.0]), chi, chi_p).state
    if fam == "dlc":
        theta = _parse_angle(_req(args, "theta"))
        b1 = _req(args, "b1") * np.array([0.0, 0.0, 1.0])
        b2 = _req(args, "b2") * np.array([math.sin(theta), 0.0, math.cos(theta)])
        return dlc_state(b1, b2, _req(args, "q")).state
    if fam == "pure-schmidt":
        lam = np.array([_number(x, "lambdas") for x in _req(args, "lambdas").split(",")])
        return pure_schmidt(lam / np.linalg.norm(lam)).state
    if fam == "x-state":
        diag = [_number(x, "diag") for x in _req(args, "diag").split(",")]
        anti = [_number(x, "anti", complex) for x in _req(args, "anti").split(",")]
        return x_state(diag, anti).state
    raise QsteerError(f"unknown family {fam!r}")


def _req(args, name: str):
    val = getattr(args, name.replace("-", "_"), None)
    if val is None:
        raise QsteerError(f"family {args.family!r} needs --{name}")
    return val


def _resolve_state(args) -> DensityMatrix:
    if args.state and args.family:
        raise QsteerError("give either a state file or --family, not both")
    if args.state:
        return load_state(args.state)
    if args.family:
        return _family_state(args)
    raise QsteerError("no input: give a state file path or --family")


def _add_family_flags(p: argparse.ArgumentParser, with_path: bool = True) -> None:
    if with_path:
        p.add_argument("state", nargs="?", help="JSON state file")
    p.add_argument("--family", choices=[
        "werner", "rho-p", "classical-c", "obese", "chord", "dlc", "pure-schmidt", "x-state",
    ])
    p.add_argument("--p", type=float, help="mixing weight (werner, rho-p)")
    p.add_argument("--theta", type=str, help="angle in radians; accepts e.g. 0.2pi")
    p.add_argument("--t", type=float, help="classical mixing weight")
    p.add_argument("--b", type=float, help="Bob marginal length (obese, chord)")
    p.add_argument("--b1", type=float, help="first segment end norm (dlc)")
    p.add_argument("--b2", type=float, help="second segment end norm (dlc)")
    p.add_argument("--q", type=float, help="segment mixing weight (dlc)")
    p.add_argument("--lambdas", type=str, help="comma-separated Schmidt coefficients")
    p.add_argument("--diag", type=str, help="comma-separated diagonal (x-state)")
    p.add_argument("--anti", type=str, help="comma-separated anti-diagonal complex entries (x-state)")


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{x:.9f}" for x in np.asarray(v).ravel()) + ")"


def cmd_msc(args) -> int:
    state = _resolve_state(args)
    result = msc_two_qubit(state) if state.dims == (2, 2) else msc_general(state)
    steered_b = bloch_vector(result.steered_state.matrix) if result.steered_state.dim == 2 else None
    print(f"msc value:          {result.value:.9f}")
    if result.optimal_m.ndim == 1 and result.optimal_m.shape == (3,) and not np.iscomplexobj(result.optimal_m):
        print(f"optimal direction:  m = {_fmt_vec(result.optimal_m)}")
    else:
        print(f"optimal element:    |psi> = {np.array2string(result.optimal_m, precision=6)}")
    if steered_b is not None:
        print(f"steered Bloch:      {_fmt_vec(steered_b)}")
    print(f"degenerate branch:  {'yes' if result.degenerate_path else 'no'}")
    for w in result.warnings:
        print(f"warning:            {w}")
    if not result.converged:
        print("optimizer did not converge within its iteration budget", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_qse(args) -> int:
    state = _resolve_state(args)
    ell = qse(state)
    bob = bloch_vector(partial_trace(state, 1).matrix)
    print(f"center:    {_fmt_vec(ell.center)}")
    print(f"semiaxes:  {_fmt_vec(ell.semiaxes)}")
    for i in range(3):
        print(f"axis {i + 1}:    {_fmt_vec(ell.frame[:, i])}")
    print(f"bob bloch: {_fmt_vec(bob)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    state = _resolve_state(args)
    if args.grid < 1:
        raise QsteerError(f"--grid must be at least 1, got {args.grid}")
    gammas = np.linspace(0.0, 1.0, args.grid)
    if args.channel == "amplitude-damping":
        if args.e is not None:
            raise QsteerError("--e applies to --channel unital only")
        q, c = damping_bloch(gammas)
    else:
        es = [_number(x, "e") for x in args.e.split(",")] if args.e else None
        if es is None or len(es) != 4:
            raise QsteerError("--channel unital needs --e e0,e1,e2,e3")
        # gamma interpolates between the identity and the given mixture, so (Q, c) is affine in gamma.
        q_e, c_e = bloch_affine(unital_pauli(*es))
        q, c = (1 - gammas[:, None, None]) * np.eye(3) + gammas[:, None, None] * q_e, gammas[:, None] * c_e
    values, converged = msc_sweep(state, q, c)
    if not converged.all():
        print(f"optimizer did not converge at gamma={gammas[~converged][0]}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    rows = ["gamma,msc"] + [f"{g:.17g},{v:.17g}" for g, v in zip(gammas, values)]
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    state = _family_state(args)
    if args.out:
        save_state(state, args.out)
    else:
        from .statefile import state_to_dict
        import json

        print(json.dumps(state_to_dict(state), indent=1))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise QsteerError(f"--seed: {args.seed} is negative")
    names = args.only or None
    all_passed = True
    for result in run_checks(only=names, seed=args.seed):
        print(result.summary())
        for line in result.lines:
            print(f"    {line}")
        all_passed = all_passed and result.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built at the first main call and kept: parse_args leaves the parser as it was.
    parser = argparse.ArgumentParser(prog="qsteer", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_msc = sub.add_parser("msc", help="maximal steered coherence of a state")
    _add_family_flags(p_msc)
    p_msc.set_defaults(fn=cmd_msc)

    p_qse = sub.add_parser("qse", help="steering ellipsoid of a two-qubit state")
    _add_family_flags(p_qse)
    p_qse.set_defaults(fn=cmd_qse)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of coherence vs channel strength")
    _add_family_flags(p_sweep)
    p_sweep.add_argument("--channel", choices=["amplitude-damping", "unital"], default="amplitude-damping")
    p_sweep.add_argument("--e", type=str, help="unital mixture weights e0,e1,e2,e3")
    p_sweep.add_argument("--grid", type=int, default=101, help="number of gamma points")
    p_sweep.add_argument("--out", type=str, help="CSV output path (default stdout)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_gen = sub.add_parser("gen", help="write a family state as a JSON state file")
    _add_family_flags(p_gen, with_path=False)
    p_gen.add_argument("--out", type=str, help="output path (default stdout)")
    p_gen.set_defaults(fn=cmd_gen)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--only", action="append", choices=list(CHECKS),
                          help="run a single named check (repeatable)")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.fn(args)
        except np.linalg.LinAlgError as exc:
            raise LinearAlgebraFailure(f"linear algebra failed: {exc}") from exc
    except (QsteerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
